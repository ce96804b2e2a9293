//! The identity table: every optional feature at its identity value changes
//! nothing. Each test is one row, "feature at its identity value ⇒ same
//! bytes / zero counters / no events", over the shared seeded op stream
//! ([`common::Stream`]); the scenario rows drive the two loops themselves,
//! because the loops are what they guard. `./ci.sh golden` holds the same
//! invariant over whole campaigns against pinned artifacts.

mod common;

use common::{Stream, DATA, SSD};
use icash::baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash::core::{Icash, IcashConfig};
use icash::metrics::trace::{parse_jsonl, JsonlSink, TraceProfile};
use icash::storage::fault::{FaultPlan, HealthPolicy, HealthState};
use icash::storage::queue::QueueConfig;
use icash::storage::trace::{TraceSink, Tracer};
use icash::storage::{BlockBuf, Ns, StorageSystem};
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::scenario::{run_open_loop, ArrivalShape, OpenLoopConfig};
use icash::workloads::workload::MixedWorkload;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The health rows' stream; its faulted inert run is pinned.
const SEED: u64 = 0x4EA1_7500;
const STREAM: Stream = Stream {
    seed: SEED,
    salt: 0x4EA1,
    fill: 0x5A,
    span_reads: false,
};
/// The stream of the whole-system and queue rows: every fifth read is a
/// 4-block span, so the batched home-read prefetch path runs.
const SPANS: Stream = Stream {
    seed: 0x0C17_AD00,
    salt: 0x0C17,
    fill: 0xA5,
    span_reads: true,
};

fn icash(configure: impl FnOnce(&mut IcashConfig)) -> Icash {
    let mut cfg = common::config();
    configure(&mut cfg);
    Icash::new(cfg)
}

type Build = fn() -> Box<dyn StorageSystem>;

/// Every architecture: its name, the plain build, and the same build with
/// the disabled fault plan armed.
const SYSTEMS: [(&str, Build, Build); 5] = [
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
        "I-CASH",
        || Box::new(icash(|_| {})),
        || Box::new(icash(|_| {}).with_fault_plan(FaultPlan::none())),
    ),
];

/// Every completion of the span stream through `sys`, and its final report.
fn outcome(mut sys: Box<dyn StorageSystem>) -> (Vec<(Ns, Vec<BlockBuf>)>, String) {
    let mut done = Vec::new();
    let t = SPANS.drive(sys.as_mut(), true, |_, at, data| done.push((at, data)));
    (done, format!("{:?}", sys.report(t)))
}

/// `FaultPlan::none()` on every architecture ⇒ the same completions and the
/// same report.
#[test]
fn disabled_fault_plan_is_bit_identical_for_every_system() {
    for (name, plain, armed) in SYSTEMS {
        assert!(
            outcome(plain()) == outcome(armed()),
            "{name}: FaultPlan::none() changed the run"
        );
    }
}

/// An attached tracer on every architecture ⇒ the same completions and the
/// same report: observability costs nothing inside the simulation.
#[test]
fn attached_tracer_is_bit_identical_for_every_system() {
    for (name, plain, _) in SYSTEMS {
        let mut traced = plain();
        let (tracer, counts) = Tracer::counting();
        traced.set_tracer(tracer);
        assert!(
            outcome(plain()) == outcome(traced),
            "{name}: attaching a tracer changed the run"
        );
        assert!(
            counts.lock().expect("counting sink").requests > 0,
            "{name}: the traced run must actually emit events"
        );
    }
}

/// `HealthPolicy::standard()` on a fault-free run ⇒ the inert run's
/// completions and traced events, every health counter zero, every device
/// `Healthy`.
#[test]
fn enabled_health_is_inert_on_a_fault_free_run() {
    assert!(
        common::config().health == HealthPolicy::inert(),
        "a controller is inert unless told otherwise"
    );
    let mut plain = Vec::new();
    let (_, plain_trace, _) = STREAM.run(icash(|_| {}), false, |_, done, data| {
        plain.push((done, data))
    });
    let standard = icash(|cfg| cfg.health = HealthPolicy::standard());
    let (_, traced, sys) = STREAM.run(standard, false, |op, done, data| {
        let expected = &plain[op as usize];
        assert_eq!(
            (&done, &data),
            (&expected.0, &expected.1),
            "op {op}: the standard policy changed a fault-free completion"
        );
    });
    assert_eq!(
        plain_trace, traced,
        "the standard policy changed the fault-free traced event stream"
    );
    let states = (HealthState::Healthy, HealthState::Healthy);
    assert_eq!(sys.health_states(), states);
    let stats = sys.stats();
    assert_eq!(stats.health_transitions, 0, "no transitions without faults");
    assert_eq!(stats.degraded_reads + stats.degraded_writes, 0);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.retry_backoffs, 0);
    assert_eq!(stats.rebuild_chunks, 0);
}

/// The inert policy under seeded HDD read and write errors ⇒ the fixed,
/// unpaced retry ladder, pinned event by event: a failed read is retried
/// once and a failed write up to three times (`fault_retry` lines, never
/// `retry_backoff`). Regenerate intentionally with `ICASH_BLESS=1 cargo
/// test -p icash --test identity`.
#[test]
fn unmonitored_fault_ladder_matches_the_pinned_trace() {
    const GOLDEN: &str = include_str!("golden/fault_ladder.jsonl");
    let plan = FaultPlan::seeded(SEED)
        .hdd_read_errors(0.2)
        .hdd_write_errors(0.5);
    let sys = icash(|_| {}).with_fault_plan(plan);
    let (t, jsonl, _) = STREAM.run(sys, true, |_, _, _| {});
    let mut text: String = jsonl.iter().map(|line| format!("{line}\n")).collect();
    text.push_str(&format!("{{\"final_ns\":{}}}\n", t.as_ns()));
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fault_ladder.jsonl"
        );
        std::fs::write(path, &text).expect("regenerate golden fixture");
        return;
    }
    // Unpaced, every retry of one ladder is the same line (same instant,
    // same address): the deepest read ladder is one rung, the deepest
    // write ladder three.
    let mut rungs: HashMap<&str, u32> = HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"fault_retry\"")) {
        *rungs.entry(line).or_default() += 1;
    }
    let deepest = |write: bool| {
        let kind = format!("\"write\":{write}");
        rungs
            .iter()
            .filter(|(l, _)| l.contains(&kind))
            .map(|(_, &n)| n)
            .max()
    };
    assert_eq!((deepest(false), deepest(true)), (Some(1), Some(3)));
    assert!(
        !text.contains("retry_backoff"),
        "an unmonitored ladder is unpaced"
    );
    assert!(
        text == GOLDEN,
        "the unmonitored fault ladder drifted from its pin"
    );
}

/// The span stream through I-CASH with `depth` queues, ending with a full
/// barrier: (per-op read payloads, traced JSONL, the controller).
fn queued(depth: Option<u32>) -> (Vec<Vec<BlockBuf>>, Vec<String>, Icash) {
    let sys = icash(|cfg| cfg.queue = depth.map(QueueConfig::depth));
    let mut payloads = Vec::new();
    let (_, jsonl, sys) = SPANS.run(sys, true, |_, _, data| payloads.push(data));
    (payloads, jsonl, sys)
}

/// Queue absent (`None`, the default) ⇒ no queue events, the one record
/// of queue activity. The queue keeps its `Option` instead of an identity
/// value (DESIGN §15) because no setting reproduces "no queue": a depth-1
/// queue still traces a `QueueAdmit` per parked append, and `write_behind`
/// returns at its arrival instant, not at media completion.
#[test]
fn queue_off_counts_nothing_and_traces_nothing() {
    let (_, trace, _) = queued(None);
    assert!(
        !trace.iter().any(|line| line.contains("\"queue_admit\"")
            || line.contains("\"queue_reorder\"")
            || line.contains("\"coalesce\"")),
        "a queue-free build must emit no queue trace events"
    );
}

/// Queue depth 8 on a fault-free run ⇒ every read returns the same bytes,
/// and after the final barrier the same byte volume has reached the HDD in
/// no more write commands.
#[test]
fn queued_run_returns_identical_data_and_media_state() {
    let (plain, _, off) = queued(None);
    let (data, trace, on) = queued(Some(8));
    assert_eq!(
        plain.len(),
        data.len(),
        "same op count on both sides of the differential"
    );
    for (op, (a, b)) in plain.iter().zip(&data).enumerate() {
        assert_eq!(a, b, "op {op}: queueing changed the bytes a read returned");
    }
    let hdd_off = off.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    let hdd_on = on.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    assert_eq!(
        hdd_off.write_bytes, hdd_on.write_bytes,
        "queueing changed the bytes written to the HDD"
    );
    assert!(
        hdd_on.writes <= hdd_off.writes,
        "coalescing can only merge write commands, never mint new ones"
    );
    assert!(
        trace.iter().any(|l| l.contains("\"queue_admit\"")),
        "the flush cadence must have parked log appends in the write cache"
    );
}

/// The queue's own contract, beside the identity row above: two identical
/// queued runs return the same bytes and trace the same events.
#[test]
fn queued_run_is_deterministic() {
    let (data_a, trace_a, _) = queued(Some(8));
    let (data_b, trace_b, _) = queued(Some(8));
    assert_eq!(data_a, data_b);
    assert_eq!(
        trace_a, trace_b,
        "two identical queued runs must trace identically"
    );
}

/// The durability contract of a queued run: after the final barrier,
/// nothing sits parked in the drive's volatile cache and every accepted
/// write's bytes are on media.
#[test]
fn barrier_drains_the_write_cache() {
    let (_, trace, sys) = queued(Some(8));
    assert!(
        trace.iter().any(|l| l.contains("\"queue_admit\"")),
        "the run must actually have exercised the write cache"
    );
    let hdd = sys.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    assert!(hdd.write_bytes > 0, "log appends reached the platter");
    assert_eq!(
        sys.hdd().cached_writes(),
        0,
        "the final flush left writes parked in the volatile cache"
    );
}

const LOOP_OPS: u64 = 400;
const LOOP_SEED: u64 = 0x5CE2_F2EE;

/// The loop rows' setup: a shrunk TPC-C (reads, writes and delta hits in
/// milliseconds), its content model, and an I-CASH tracing into a JSONL
/// sink.
fn tpcc() -> (MixedWorkload, ContentModel, Icash, Arc<Mutex<JsonlSink>>) {
    let mut spec = icash::workloads::tpcc::spec();
    spec.data_bytes = 16 << 20;
    let cfg = IcashConfig::builder(spec.ssd_bytes.min(4 << 20), 1 << 20, spec.data_bytes);
    let mut sys = Icash::new(cfg.build());
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    let model = ContentModel::new(LOOP_SEED, spec.profile.clone());
    (MixedWorkload::new(spec, LOOP_SEED), model, sys, sink)
}

fn profile(sink: &Mutex<JsonlSink>) -> TraceProfile {
    let text = sink.lock().expect("jsonl sink").take_text();
    TraceProfile::from_events(&parse_jsonl(&text).expect("traced stream parses"))
}

/// No scenario (the plain closed loop) ⇒ no open-loop arrival events and no
/// "Open-loop queued" row in the profile.
#[test]
fn closed_loop_emits_no_open_loop_events() {
    let (mut wl, mut model, mut sys, sink) = tpcc();
    let cfg = DriverConfig {
        warmup_ops: LOOP_OPS / 4,
        ..DriverConfig::new(LOOP_OPS).clients(4)
    };
    let summary = run_benchmark(&mut sys, &mut wl, &mut model, &cfg);
    assert_eq!(summary.ops, LOOP_OPS);
    let profile = profile(&sink);
    assert!(
        profile.stats.requests > 0,
        "the traced run must produce events"
    );
    assert_eq!(profile.stats.open_loop_arrivals, 0);
    assert_eq!(profile.stats.open_loop_queued, Ns::ZERO);
    assert!(
        !profile.render().contains("Open-loop queued"),
        "closed-loop profiles must not grow an open-loop row"
    );
}

/// `verify` off ⇒ the same run, summary and trace: a read nobody checks
/// builds no bytes and takes no handle on them, and nothing the simulation
/// times or counts may notice.
#[test]
fn unverified_reads_render_the_same_summary() {
    let run = |verify: bool| {
        let (mut wl, mut model, mut sys, sink) = tpcc();
        let cfg = DriverConfig {
            warmup_ops: LOOP_OPS / 4,
            verify,
            ..DriverConfig::new(LOOP_OPS).clients(4)
        };
        let summary = run_benchmark(&mut sys, &mut wl, &mut model, &cfg);
        assert!(sys.stats().delta_hits > 0, "the run must decode");
        let trace = sink.lock().expect("jsonl sink").take_text();
        (summary.to_json(), trace)
    };
    let (verified, unverified) = (run(true), run(false));
    assert!(verified.0 == unverified.0, "verify changed the summary");
    assert!(verified.1 == unverified.1, "verify changed the trace");
}

/// Feature on, kept here as the contrast without which the row above could
/// pass on a profile that never shows arrivals: the same system driven
/// open-loop by bursts far faster than it serves queues, and its profile
/// shows it.
#[test]
fn open_loop_burst_shows_its_queueing_in_the_profile() {
    let (mut wl, mut model, mut sys, sink) = tpcc();
    let mut cfg = OpenLoopConfig::new(
        ArrivalShape::Burst.config(Ns::from_ns(200)),
        LOOP_OPS,
        LOOP_SEED,
    );
    cfg.clients = 1;
    let tracer = Tracer::to_sink(sink.clone() as Arc<Mutex<dyn TraceSink + Send>>);
    let summary = run_open_loop(&mut sys, &mut wl, &mut model, &cfg, &tracer);
    assert_eq!(summary.ops, LOOP_OPS);
    let profile = profile(&sink);
    assert_eq!(profile.stats.open_loop_arrivals, LOOP_OPS);
    assert!(
        profile.stats.open_loop_queued > Ns::ZERO,
        "an overloaded open loop must queue"
    );
    assert!(
        profile.render().contains("Open-loop queued"),
        "an open-loop run must render its queued share"
    );
}
