//! Differential guard for the scenario engine: with scenarios off (the
//! default), the closed-loop driver must be untouched — zero
//! `open_loop_arrival` events in the trace stream, no "Open-loop queued"
//! row in the profile, and a byte-identical deterministic event stream
//! (the CI gate additionally diffs `run_all`/`run_faults` artifacts
//! against pinned goldens). With the open-loop dispatcher on, the same
//! system must show its queueing in the trace — that contrast is the
//! whole point of the engine.

use std::sync::{Arc, Mutex};

use icash::core::{Icash, IcashConfig};
use icash::metrics::trace::{parse_jsonl, JsonlSink, TraceProfile};
use icash::storage::trace::{TraceSink, Tracer};
use icash::storage::{Ns, StorageSystem};
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::scenario::{run_open_loop, ArrivalShape, OpenLoopConfig};
use icash::workloads::workload::MixedWorkload;
use icash::workloads::WorkloadSpec;

const OPS: u64 = 400;
const SEED: u64 = 0x5CE2_F2EE;

/// A shrunk TPC-C spec: big enough to exercise reads, writes, and delta
/// hits, small enough to run in milliseconds.
fn spec() -> WorkloadSpec {
    let mut spec = icash::workloads::tpcc::spec();
    spec.data_bytes = 16 << 20;
    spec
}

fn system(spec: &WorkloadSpec) -> Icash {
    Icash::new(IcashConfig::builder(spec.ssd_bytes.min(4 << 20), 1 << 20, spec.data_bytes).build())
}

/// Runs the plain closed-loop driver with a JSONL sink attached and
/// returns the traced text.
fn closed_loop_trace() -> String {
    let spec = spec();
    let mut sys = system(&spec);
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    let mut wl = MixedWorkload::new(spec.clone(), SEED);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let cfg = DriverConfig {
        clients: 4,
        ops: OPS,
        warmup_ops: OPS / 4,
        verify: false,
        guest_cache: false,
        cpu: None,
    };
    let summary = run_benchmark(&mut sys, &mut wl, &mut model, &cfg);
    assert_eq!(summary.ops, OPS);
    let mut sink = sink.lock().expect("jsonl sink");
    sink.take_text()
}

#[test]
fn closed_loop_emits_no_open_loop_events() {
    let text = closed_loop_trace();
    assert!(!text.is_empty(), "the traced run must produce events");
    assert!(
        !text.contains("open_loop_arrival"),
        "a scenario-free closed loop leaked open-loop arrival events"
    );
    let events = parse_jsonl(&text).expect("traced stream parses");
    let profile = TraceProfile::from_events(&events);
    assert_eq!(profile.stats.open_loop_arrivals, 0);
    assert_eq!(profile.stats.open_loop_queued, Ns::ZERO);
    assert!(
        !profile.render().contains("Open-loop queued"),
        "closed-loop profiles must not grow an open-loop row"
    );
}

#[test]
fn closed_loop_trace_is_deterministic() {
    assert_eq!(
        closed_loop_trace(),
        closed_loop_trace(),
        "same seed, same spec: the scenario-free stream must be byte-identical"
    );
}

#[test]
fn open_loop_burst_shows_its_queueing_in_the_profile() {
    // The contrast direction: drive the same system open-loop with a gap
    // far below its service time, so arrivals pile up behind one client.
    let spec = spec();
    let mut sys = system(&spec);
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    let mut wl = MixedWorkload::new(spec.clone(), SEED);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let mut cfg = OpenLoopConfig::new(ArrivalShape::Burst.config(Ns::from_ns(200)), OPS, SEED);
    cfg.clients = 1;
    let (summary, stats) = run_open_loop(&mut sys, &mut wl, &mut model, &cfg, &Tracer::disabled());
    assert_eq!(summary.ops, OPS);
    assert!(
        stats.queued > Ns::ZERO,
        "an overloaded open loop must queue"
    );

    // The trace the system saw during the open-loop run carries the
    // arrival events through to the rendered profile.
    let mut sys = system(&spec);
    let mut wl = MixedWorkload::new(spec.clone(), SEED);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let tracer = Tracer::to_sink(sink.clone() as Arc<Mutex<dyn TraceSink + Send>>);
    let (_, stats) = run_open_loop(&mut sys, &mut wl, &mut model, &cfg, &tracer);
    let text = sink.lock().expect("jsonl sink").take_text();
    let events = parse_jsonl(&text).expect("traced stream parses");
    let profile = TraceProfile::from_events(&events);
    assert_eq!(profile.stats.open_loop_arrivals, OPS);
    assert_eq!(profile.stats.open_loop_queued, stats.queued);
    assert!(
        profile.render().contains("Open-loop queued"),
        "an open-loop run must render its queued share"
    );
}
